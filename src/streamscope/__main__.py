"""`python -m streamscope`: the same command line as the `streamscope`
script."""

import sys

from .cli import main

sys.exit(main())
