"""The ARIES/IM B+-tree index manager (the paper's core contribution)."""
