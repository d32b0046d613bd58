"""R11-scoped file: suppression works inside the rule's scope prefix."""


def harvest(futures):
    for future in futures:
        yield future.result()  # lint: allow[R11]
    for future in futures:
        yield future.result()
