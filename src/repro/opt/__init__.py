"""Classical block-local optimisations run ahead of scheduling."""
