"""``python -m hsldmm``: the ``hsldmm`` command."""

import sys

from .cli import main

sys.exit(main())
