"""GDP-coupled demographic rate ensembles and population projection."""

__version__ = "0.1.0"
