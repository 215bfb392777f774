"""``python -m tperfect``: the same command line as the ``tperfect`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
