"""ARIES restart and media recovery."""
