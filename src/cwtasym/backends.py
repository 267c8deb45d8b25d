"""Placeholder kept only because the benchmark's tracer (``perfbench/tracing.py``)
still imports this module and its ``KernelDescriptor``; nothing in the package
uses either, and the next change to the benchmark deletes this file."""


class KernelDescriptor:
    pass
