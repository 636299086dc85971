"""End-to-end and per-layer benchmark of the repro pipeline (see README.md)."""
