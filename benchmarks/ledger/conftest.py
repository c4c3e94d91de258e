"""Keep the ledger's self-test out of default collection: it runs the whole
benchmark seven times.  Run it by path:

    python3 -m pytest benchmarks/ledger/test_ledger.py
"""

collect_ignore = ["test_ledger.py"]
