import gc
import sys

from .cli import main

# the imported modules live until exit: keep collections off them; a module
# a command imports later (designs, harmonic, verify) is not frozen
gc.freeze()
sys.exit(main())
