"""simlint fixture: collector policy outside the kernel (5 findings)."""

import gc
from gc import freeze


def quiesced(measure):
    gc.disable()
    gc.set_threshold(100000)
    freeze()
    try:
        return measure()
    finally:
        gc.unfreeze()
        gc.enable()


def housekeeping():
    # collecting and inspecting are not policy: quiet
    gc.collect()
    return gc.isenabled()
