"""Seeded benchmark of the ndsys command line; see run.py."""
