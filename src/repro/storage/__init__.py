"""Storage substrate: pages, simulated disk, latches, buffer pool."""
