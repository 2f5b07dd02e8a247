"""Monte-Carlo simulator for air-to-ground line-of-sight probability and
path loss over randomized Manhattan-style cities."""

__version__ = "0.1.0"
