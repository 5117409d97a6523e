"""Metamorphic testing toolkit for audio content moderation."""

__version__ = "0.2.0"
