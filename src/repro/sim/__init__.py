"""Discrete-event simulation substrate."""

from .channel import Channel, ChannelFaultHook, ChannelPair, FaultyTransfer
from .clock import SimClock
from .events import Event, EventQueue
from .loop import Simulator

__all__ = [
    "Channel",
    "ChannelFaultHook",
    "ChannelPair",
    "Event",
    "EventQueue",
    "FaultyTransfer",
    "SimClock",
    "Simulator",
]
