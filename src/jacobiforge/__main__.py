import gc
import sys

from .cli import main

gc.freeze()  # the imported modules live until exit: keep collections off them
sys.exit(main())
