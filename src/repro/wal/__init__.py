"""Write-ahead logging: records, serialization, and the log manager."""
