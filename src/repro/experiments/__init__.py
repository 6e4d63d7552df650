"""Experiment harnesses reproducing every table and figure.

Each module declares its sweep (``sections``) and its ``report``;
:mod:`repro.experiments.cli` runs them.
"""
