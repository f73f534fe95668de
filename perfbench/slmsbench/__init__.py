"""The SLMS reproduction's benchmark library (see ``perfbench/README.md``)."""
