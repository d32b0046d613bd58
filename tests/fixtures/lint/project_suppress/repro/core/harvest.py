"""Same pattern as experiments/harvest.py, but outside R11's scope: silent."""


def harvest(futures):
    for future in futures:
        yield future.result()
