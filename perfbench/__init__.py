"""Seeded, oracle-checked benchmark of the chainent command line.

`run.py` is the entry point; see README.md in this directory.
"""
