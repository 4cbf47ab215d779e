"""perfbench: the repository's real-time benchmark.

Page loads, report statements and a mixed read/write TPC-C run, timed in
real seconds against a frozen calibration kernel, with a separate traced
run that splits the time by layer.  ``perfbench/README.md`` explains the
metrics; ``python3 perfbench/run.py --help`` the command.
"""
