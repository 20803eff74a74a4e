"""Describe and realize a description document, printing one id per line.

    PYTHONPATH=src python3 perfbench/realize_client.py DOCUMENT

The `history` workload runs this as a fresh process per op, as a script
using the library would, so its wall time and peak RSS are the user's.
"""
import sys

from swhid import describe_nodes, realize_descriptions

with open(sys.argv[1], "rb") as fh:
    document = fh.read()
sys.stdout.write("".join(f"{swhid}\n" for swhid, _ in realize_descriptions(describe_nodes(document))))
