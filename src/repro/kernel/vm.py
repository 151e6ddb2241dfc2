"""Virtual machines for the ksm experiments (SVI-B).

ksm deduplicates identical pages *across VMs* — OS images and common
libraries give many byte-identical pages.  A :class:`VirtualMachine`
here is an address space of content-bearing pages with KVM-style
copy-on-write semantics: once ksm merges a page, a write from any VM
breaks the share and materializes a private copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.errors import KernelError
from repro.kernel.pagestore import PAGE_STORE, PageStore
from repro.sim.rng import DeterministicRng
from repro.units import PAGE_SIZE


@dataclass
class VmPage:
    """One guest page."""

    vpn: int
    content: bytes
    shared: bool = False        # merged into a ksm stable page
    poisoned: bool = False      # known-bad bytes: never content-interned

    def __post_init__(self) -> None:
        if len(self.content) != PAGE_SIZE:
            raise KernelError(
                f"VM page must be {PAGE_SIZE} B, got {len(self.content)}")


class VirtualMachine:
    """One guest with a page-granular address space.

    Page contents are interned through a :class:`PageStore` (the global
    one by default), so byte-identical pages across the fleet share one
    host-side buffer.  Guest writes copy out transparently: the old
    content's reference is released and the new bytes interned — the
    canonical object is never mutated.  Poisoned pages opt out of
    sharing entirely.
    """

    def __init__(self, name: str, store: PageStore = PAGE_STORE):
        self.name = name
        self._pages: Dict[int, VmPage] = {}
        self._store = store
        self.cow_breaks = 0

    def __len__(self) -> int:
        return len(self._pages)

    def map_page(self, vpn: int, content: bytes,
                 poisoned: bool = False) -> VmPage:
        if vpn in self._pages:
            raise KernelError(f"{self.name}: vpn {vpn} already mapped")
        if not poisoned:
            content = self._store.intern(content)
        page = VmPage(vpn, content, poisoned=poisoned)
        self._pages[vpn] = page
        return page

    def read(self, vpn: int) -> bytes:
        return self._page(vpn).content

    def write(self, vpn: int, content: bytes) -> VmPage:
        """Guest write: breaks a ksm share (CoW) if present, releases
        the old interned content, and interns the new bytes (copy-out —
        the previous canonical object is never touched)."""
        page = self._page(vpn)
        if page.shared:
            page.shared = False
            self.cow_breaks += 1
        if page.poisoned:
            page.content = content
        else:
            self._store.release(page.content)
            page.content = self._store.intern(content)
        return page

    def poison_page(self, vpn: int) -> VmPage:
        """RAS: mark a guest page's bytes known-bad.  Its content leaves
        the shared store immediately — poison is per-physical-copy state
        and must never ride a canonical object into other mappings."""
        page = self._page(vpn)
        if not page.poisoned:
            self._store.release(page.content)
            page.poisoned = True
        return page

    def unmap_all(self) -> None:
        """Tear down the address space, releasing every interned ref —
        after this the VM's footprint in the shared store is zero."""
        for page in self._pages.values():
            if not page.poisoned:
                self._store.release(page.content)
        self._pages.clear()

    def pages(self) -> list[VmPage]:
        return list(self._pages.values())

    def page_of(self, vpn: int) -> VmPage:
        """Public accessor for one guest page."""
        return self._page(vpn)

    def _page(self, vpn: int) -> VmPage:
        try:
            return self._pages[vpn]
        except KeyError:
            raise KernelError(f"{self.name}: vpn {vpn} not mapped")


def make_vm_fleet(count: int, pages_per_vm: int, shared_fraction: float,
                  rng: DeterministicRng) -> list[VirtualMachine]:
    """Build VMs whose address spaces overlap like real guest images.

    ``shared_fraction`` of each VM's pages come from a common template
    pool (OS + library pages, identical across VMs); the rest is private
    random data that cannot merge.
    """
    if not 0 <= shared_fraction <= 1:
        raise KernelError(f"shared_fraction out of range: {shared_fraction}")
    template_count = max(1, int(pages_per_vm * shared_fraction))
    # Template pages: mostly-zero with a distinct stamp, like ELF pages.
    templates = []
    for i in range(template_count):
        page = bytearray(PAGE_SIZE)
        stamp = rng.random_bytes(48)
        page[0:48] = stamp
        page[128:132] = i.to_bytes(4, "little")
        templates.append(bytes(page))

    vms = []
    for v in range(count):
        vm = VirtualMachine(f"vm{v}")
        for vpn in range(pages_per_vm):
            if vpn < template_count:
                vm.map_page(vpn, templates[vpn])
            else:
                vm.map_page(vpn, rng.random_bytes(PAGE_SIZE))
        vms.append(vm)
    return vms
