import sys

from .cli import console_main

sys.exit(console_main())
