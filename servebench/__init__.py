"""End-to-end benchmark of ``repro serve`` (see ``servebench/run.py``)."""
