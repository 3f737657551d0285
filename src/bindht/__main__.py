"""Entry point for ``python -m bindht``; same commands as ``bindht``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
