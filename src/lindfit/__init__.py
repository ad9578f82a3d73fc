"""Learning physically consistent Markovian generators for a two-spin
subsystem of an exactly simulated interacting spin chain."""

__version__ = "0.1.0"
