"""Lock manager: modes, durations, deadlock detection."""
