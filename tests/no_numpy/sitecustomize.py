"""Put this directory first on PYTHONPATH to run Python as if numpy were not
installed: a finder first on sys.meta_path makes every import of numpy, or of
a module of it, raise ModuleNotFoundError, in the first interpreter and in
every one it starts.  A None entry in sys.modules would block the import too,
but hypothesis reads "numpy" in sys.modules as numpy imported and then fails
to import numpy.random."""
import sys


class NoNumpy:
    @staticmethod
    def find_spec(name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)


sys.meta_path.insert(0, NoNumpy)
