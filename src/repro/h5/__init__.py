"""``repro.h5`` — hierarchical binary datastore (the "HDF5" substrate).

Provides the group/dataset container the HPAC-ML data-collection path
writes training databases into (README.md § Substitutions).
"""

from .file import File, Group, Dataset
from .format import encode_tree, decode_tree, FormatError, MAGIC

__all__ = ["File", "Group", "Dataset", "encode_tree", "decode_tree",
           "FormatError", "MAGIC"]
