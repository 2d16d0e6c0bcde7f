"""OpenWPM reproduction.

A faithful-by-design reimplementation of the parts of OpenWPM the paper
analyses (v0.17–0.20 era): the task manager / browser manager framework,
SQLite storage, and the three most-used instruments — HTTP, cookie, and
JavaScript. The JavaScript instrument deliberately reproduces the
*vulnerable* upstream design (DOM script injection, event-dispatcher
messaging with a random ID, first-prototype-only wrapping, leftover
``window.getInstrumentJS``), because the paper's attacks (Sec. 5) and
hardening (Sec. 6) are defined against exactly those behaviours.
"""

from repro.openwpm.config import BrowserParams, ManagerParams
from repro.openwpm.storage import StorageController
from repro.openwpm.extension import OpenWPMExtension
from repro.openwpm.task_manager import CommandSequence, TaskManager

__all__ = [
    "BrowserParams",
    "ManagerParams",
    "StorageController",
    "OpenWPMExtension",
    "TaskManager",
    "CommandSequence",
]
