"""Served-path benchmark of the SPOT detection service (see README.md)."""
