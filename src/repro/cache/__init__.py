"""Set-associative cache model with pluggable replacement policies."""
