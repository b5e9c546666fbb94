"""Standalone benchmark of the extraction engine and its query functions."""
