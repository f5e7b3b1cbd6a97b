"""Deterministic simulator for redundant DHT lookups guided by reputation.

Two overlay families are modeled: a Chord-style ring with redundant
finger-offset subsearches, and a Kademlia-style XOR overlay with
iterative parallel lookups.  Both can route using locally observed
per-contact reputation, and both are exercised against colluding
adversaries; only the ring overlay's experiments add churn.
"""

__version__ = "0.1.0"
