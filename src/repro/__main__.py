"""``python -m repro`` entry point."""

import sys

from repro.cli import main

if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
