"""Capacity lower bounds for binary channels with synchronization errors.

Importing the package loads none of its modules: import each public name from its module,
``from synchan.bounds import deletion_bound``.  The README's API section lists them all.
"""

__version__ = "0.1.0"
