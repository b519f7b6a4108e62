"""Rigid-frame helpers for tests."""

from stericzip import RigidTransform


def inverse(transform: RigidTransform) -> RigidTransform:
    """The transform that undoes ``transform``: rotation R^T and translation -(R^T t)."""
    rt = transform.rotation.T
    return RigidTransform(rt, -(rt @ transform.translation))
