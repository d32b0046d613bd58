"""R1 fixture: every flavor of wall-clock / ambient nondeterminism."""

import os
import random
import time
import uuid
from datetime import datetime


def bad_wall_clock() -> float:
    return time.time()  # line 11: R1


def bad_time_ns() -> int:
    return time.time_ns()  # line 15: R1


def bad_datetime() -> object:
    return datetime.now()  # line 19: R1


def bad_global_random() -> float:
    return random.random()  # line 23: R1


def bad_random_choice(options: list) -> object:
    return random.choice(options)  # line 27: R1


def bad_uuid() -> object:
    return uuid.uuid4()  # line 31: R1


def bad_entropy() -> bytes:
    return os.urandom(8)  # line 35: R1


def bad_getenv() -> object:
    return os.getenv("REPRO_MODE")  # line 39: R1


def bad_environ_get() -> object:
    return os.environ.get("REPRO_MODE")  # line 43: R1
