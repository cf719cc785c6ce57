"""Power-mean composition of training losses with adaptive weights, plus
a desk-scale numerical lab that checks the scheme's optimization,
generalization-bound, and frequency-domain behavior."""
