"""Record manager: heap files, data pages, tables."""
