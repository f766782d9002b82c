"""Lets `python3 -m pytest perfbench` import the benchmark modules and the
package sources without installing anything."""

import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
