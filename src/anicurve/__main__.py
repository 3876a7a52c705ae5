"""Command-line entry point: python -m anicurve <experiment> --config <path> ..."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
