"""``python -m oucv``: the ``oucv`` command line of :mod:`oucv.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
