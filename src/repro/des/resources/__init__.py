"""Shared-resource primitives for the DES kernel (SimPy-compatible)."""

from repro.des.resources.base import BaseResource, Get, Put
from repro.des.resources.container import Container, ContainerGet, ContainerPut
from repro.des.resources.resource import Release, Request, Resource

__all__ = [
    "BaseResource",
    "Container",
    "ContainerGet",
    "ContainerPut",
    "Get",
    "Put",
    "Release",
    "Request",
    "Resource",
]
