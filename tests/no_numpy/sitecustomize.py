"""Put this directory first on PYTHONPATH to run Python as if numpy were not
installed: a None entry in sys.modules makes every `import numpy` raise
ImportError, in the first interpreter and in every one it starts."""
import sys

sys.modules["numpy"] = None
