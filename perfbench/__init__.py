"""The simulator's benchmark (see run.py and catalog.py)."""
