"""`python -m hanfix`: the same CLI as the `hanfix` console script."""

import sys

from .cli import main

sys.exit(main())
