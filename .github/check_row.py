"""Check the report of one `imexest run`: a header and one row, whose
effectivity is finite and within TOL of 1, or printed exactly as TEXT.

    python .github/check_row.py FILE COLUMNS (--within TOL | --equals TEXT)
"""

import argparse
import math

parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
parser.add_argument("file", help="the run's stdout")
parser.add_argument("columns", type=int, help="fields of the header and of the row")
bound = parser.add_mutually_exclusive_group(required=True)
bound.add_argument("--within", type=float, metavar="TOL",
                   help="the effectivity's largest distance from 1")
bound.add_argument("--equals", metavar="TEXT", help="the effectivity as printed")
args = parser.parse_args()

with open(args.file) as fh:
    lines = [line.rstrip("\n") for line in fh if not line.startswith("#")]
assert len(lines) == 2, lines
# a scheme name such as SSP3(4,3,3) holds commas of its own: the row is
# split from the right
header, row = lines[0].split(","), lines[1].rsplit(",", args.columns - 1)
assert len(header) == args.columns and len(row) == args.columns, (header, row)
if args.equals is not None:
    assert row[2] == args.equals, row
else:
    effectivity = float(row[2])
    assert math.isfinite(effectivity) and abs(effectivity - 1.0) < args.within, effectivity
