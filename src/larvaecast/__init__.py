"""Mosquito larvae abundance projection from recursive climate forecasts."""

__version__ = "0.1.0"
