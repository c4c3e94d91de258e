"""Core IR data structures: values, operations, blocks and regions.

The design mirrors MLIR's object model:

* an :class:`Operation` has typed operands and results, a dictionary of
  attributes and an ordered list of nested :class:`Region` instances;
* a :class:`Region` contains an ordered list of :class:`Block` instances
  (structured-control-flow ops such as ``scf.for`` carry single-block
  regions);
* a :class:`Block` has typed :class:`BlockArgument` values (used for loop
  induction variables and function parameters) and an ordered list of
  operations, the last of which is a terminator for structured ops;
* every :class:`Value` (an :class:`OpResult` or a :class:`BlockArgument`)
  tracks its uses so transformations can rewrite the def-use graph safely.

All mutations of the def-use graph must go through the provided APIs
(``set_operand``, ``replace_all_uses_with``, ``erase`` ...) so that use lists
remain consistent.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .types import Type


# ---------------------------------------------------------------------------
# Memory effects
# ---------------------------------------------------------------------------
class EffectKind(Enum):
    """Kinds of memory effects an operation may have on a resource."""

    READ = "read"
    WRITE = "write"
    ALLOC = "alloc"
    FREE = "free"


class MemoryEffect:
    """A single (kind, resource) memory effect.

    ``value`` is the SSA value of the affected memref, or ``None`` when the
    effect touches an unknown location (e.g. an opaque call).
    """

    __slots__ = ("kind", "value")

    def __init__(self, kind: EffectKind, value: Optional["Value"] = None) -> None:
        self.kind = kind
        self.value = value

    def __repr__(self) -> str:
        target = "<unknown>" if self.value is None else self.value.name
        return f"MemoryEffect({self.kind.value}, {target})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MemoryEffect)
            and self.kind is other.kind
            and self.value is other.value
        )

    def __hash__(self) -> int:
        return hash((self.kind, id(self.value)))


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------
class Use:
    """A single use of a value: ``owner.operands[operand_index] is value``."""

    __slots__ = ("owner", "operand_index")

    def __init__(self, owner: "Operation", operand_index: int) -> None:
        self.owner = owner
        self.operand_index = operand_index

    def __repr__(self) -> str:
        return f"Use({self.owner.name}, #{self.operand_index})"


class Value:
    """Base class for SSA values."""

    def __init__(self, type: Type, name_hint: str = "") -> None:
        self.type = type
        self.name_hint = name_hint
        self.uses: List[Use] = []

    # -- naming -------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.name_hint or "<anon>"

    # -- use tracking ---------------------------------------------------------
    def add_use(self, owner: "Operation", operand_index: int) -> None:
        self.uses.append(Use(owner, operand_index))

    def remove_use(self, owner: "Operation", operand_index: int) -> None:
        for i, use in enumerate(self.uses):
            if use.owner is owner and use.operand_index == operand_index:
                del self.uses[i]
                return
        raise ValueError(f"use of {self.name} by {owner.name} #{operand_index} not found")

    @property
    def has_uses(self) -> bool:
        return bool(self.uses)

    @property
    def users(self) -> List["Operation"]:
        """Distinct operations using this value, in use order."""
        seen: List[Operation] = []
        for use in self.uses:
            if use.owner not in seen:
                seen.append(use.owner)
        return seen

    def replace_all_uses_with(self, new_value: "Value") -> None:
        """Rewrite every use of ``self`` to use ``new_value`` instead."""
        if new_value is self:
            return
        for use in list(self.uses):
            use.owner.set_operand(use.operand_index, new_value)

    def replace_uses_if(self, new_value: "Value", predicate: Callable[[Use], bool]) -> None:
        """Replace only the uses for which ``predicate(use)`` is true."""
        for use in list(self.uses):
            if predicate(use):
                use.owner.set_operand(use.operand_index, new_value)

    # -- structural queries ----------------------------------------------------
    def owner_block(self) -> Optional["Block"]:
        raise NotImplementedError

    def defining_op(self) -> Optional["Operation"]:
        """The operation defining this value, or None for block arguments."""
        return None

    def __repr__(self) -> str:
        return f"{self.__class__.__name__}({self.name}: {self.type})"


class OpResult(Value):
    """A result produced by an operation."""

    def __init__(self, op: "Operation", index: int, type: Type, name_hint: str = "") -> None:
        super().__init__(type, name_hint)
        self.op = op
        self.index = index

    def defining_op(self) -> Optional["Operation"]:
        return self.op

    def owner_block(self) -> Optional["Block"]:
        return self.op.parent_block


class BlockArgument(Value):
    """An argument of a block (function parameter, loop induction var, ...)."""

    def __init__(self, block: "Block", index: int, type: Type, name_hint: str = "") -> None:
        super().__init__(type, name_hint)
        self.block = block
        self.index = index

    def owner_block(self) -> Optional["Block"]:
        return self.block


# ---------------------------------------------------------------------------
# Operation
# ---------------------------------------------------------------------------
class Operation:
    """A generic IR operation.

    Dialect operations subclass :class:`Operation`, set :attr:`OP_NAME`, and
    typically provide a convenience constructor plus named accessors for
    operands, attributes and regions.  The base class implements all def-use
    bookkeeping, cloning, erasure and traversal.
    """

    OP_NAME: str = "builtin.unregistered"
    #: subclasses set this when the op must be the last op of its block.
    IS_TERMINATOR: bool = False
    #: subclasses set this when the op has no side effects and can be CSE'd/DCE'd.
    IS_PURE: bool = False
    #: ops whose side effects are exactly those of their nested regions.
    HAS_RECURSIVE_EFFECTS: bool = False

    def __init__(
        self,
        operands: Sequence[Value] = (),
        result_types: Sequence[Type] = (),
        attributes: Optional[Dict[str, object]] = None,
        regions: Sequence["Region"] = (),
        result_names: Sequence[str] = (),
    ) -> None:
        self.attributes: Dict[str, object] = dict(attributes or {})
        self.parent_block: Optional[Block] = None
        self._operands: List[Value] = []
        self.results: List[OpResult] = []
        self.regions: List[Region] = []

        for value in operands:
            self._append_operand(value)
        for i, result_type in enumerate(result_types):
            hint = result_names[i] if i < len(result_names) else ""
            self.results.append(OpResult(self, i, result_type, hint))
        for region in regions:
            self.add_region(region)

    # -- identity --------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.OP_NAME

    def __repr__(self) -> str:
        return f"<{self.name} @{id(self):#x}>"

    # -- operands ---------------------------------------------------------------
    @property
    def operands(self) -> Tuple[Value, ...]:
        return tuple(self._operands)

    def _append_operand(self, value: Value) -> None:
        if not isinstance(value, Value):
            raise TypeError(f"operand of {self.name} must be a Value, got {value!r}")
        index = len(self._operands)
        self._operands.append(value)
        value.add_use(self, index)

    def set_operand(self, index: int, value: Value) -> None:
        old = self._operands[index]
        if old is value:
            return
        old.remove_use(self, index)
        self._operands[index] = value
        value.add_use(self, index)

    def drop_all_uses_of_operands(self) -> None:
        for index, operand in enumerate(self._operands):
            operand.remove_use(self, index)
        self._operands = []

    # -- results ---------------------------------------------------------------
    @property
    def result(self) -> OpResult:
        if len(self.results) != 1:
            raise ValueError(f"{self.name} has {len(self.results)} results, expected 1")
        return self.results[0]

    # -- regions ---------------------------------------------------------------
    def add_region(self, region: "Region") -> "Region":
        region.parent_op = self
        self.regions.append(region)
        return region

    # -- structure --------------------------------------------------------------
    @property
    def parent_op(self) -> Optional["Operation"]:
        if self.parent_block is None or self.parent_block.parent_region is None:
            return None
        return self.parent_block.parent_region.parent_op

    def ancestors(self) -> Iterator["Operation"]:
        op = self.parent_op
        while op is not None:
            yield op
            op = op.parent_op

    def is_ancestor_of(self, other: "Operation") -> bool:
        """True if ``self`` is ``other`` or a (transitive) parent of it."""
        node: Optional[Operation] = other
        while node is not None:
            if node is self:
                return True
            node = node.parent_op
        return False

    def is_before_in_block(self, other: "Operation") -> bool:
        """True if both ops share a block and ``self`` comes first."""
        if self.parent_block is None or self.parent_block is not other.parent_block:
            raise ValueError("operations are not in the same block")
        block = self.parent_block
        return block.index_of(self) < block.index_of(other)

    # -- mutation ---------------------------------------------------------------
    def erase(self) -> None:
        """Remove this op from its block and drop all the uses it holds.

        The op must itself be use-free (no remaining uses of its results).
        """
        for result in self.results:
            if result.has_uses:
                raise ValueError(
                    f"cannot erase {self.name}: result {result.name} still has uses"
                )
        self.drop_ref()
        if self.parent_block is not None:
            self.parent_block.remove(self)

    def drop_ref(self) -> None:
        """Drop the uses held by this op and (recursively) its regions."""
        self.drop_all_uses_of_operands()
        for region in self.regions:
            for block in region.blocks:
                for op in list(block.operations):
                    op.drop_ref()

    def remove_from_parent(self) -> None:
        """Detach the op from its block without destroying it."""
        if self.parent_block is not None:
            self.parent_block.remove(self)

    def move_before(self, other: "Operation") -> None:
        self.remove_from_parent()
        other.parent_block.insert_before(other, self)

    def move_after(self, other: "Operation") -> None:
        self.remove_from_parent()
        other.parent_block.insert_after(other, self)

    def clone(self, value_map: Optional[Dict[Value, Value]] = None) -> "Operation":
        """Deep-clone the operation (and its regions).

        ``value_map`` maps original values to replacement values; it is
        extended with the clone's results and block arguments so that nested
        uses are remapped consistently.
        """
        value_map = value_map if value_map is not None else {}
        new_operands = [value_map.get(operand, operand) for operand in self._operands]
        cloned = object.__new__(type(self))
        Operation.__init__(
            cloned,
            operands=new_operands,
            result_types=[result.type for result in self.results],
            attributes=dict(self.attributes),
            result_names=[result.name_hint for result in self.results],
        )
        for old_result, new_result in zip(self.results, cloned.results):
            value_map[old_result] = new_result
        for region in self.regions:
            cloned.add_region(region.clone(value_map))
        return cloned

    # -- traversal ---------------------------------------------------------------
    def walk(self, fn: Optional[Callable[["Operation"], None]] = None) -> Iterator["Operation"]:
        """Pre-order traversal over this op and every nested op.

        Usable either as an iterator (``for op in root.walk()``) or with a
        callback.  Traversal snapshots each block's op list so callbacks may
        erase the op they are given.
        """

        def generator(op: "Operation") -> Iterator["Operation"]:
            yield op
            for region in op.regions:
                for block in region.blocks:
                    for nested in list(block.operations):
                        yield from generator(nested)

        if fn is None:
            return generator(self)
        for op in generator(self):
            fn(op)
        return iter(())

    def walk_post_order(self) -> Iterator["Operation"]:
        """Post-order traversal (children before parents)."""
        for region in self.regions:
            for block in region.blocks:
                for nested in list(block.operations):
                    yield from nested.walk_post_order()
        yield self

    # -- effects / verification ---------------------------------------------------
    def memory_effects(self) -> List[MemoryEffect]:
        """Memory effects of this operation.

        Pure ops return ``[]``.  Ops with recursive effects return the union
        of the effects of their nested operations.  Unknown ops conservatively
        report an unknown read and write.
        """
        if self.IS_PURE:
            return []
        if self.HAS_RECURSIVE_EFFECTS:
            effects: List[MemoryEffect] = []
            for region in self.regions:
                for block in region.blocks:
                    for op in block.operations:
                        effects.extend(op.memory_effects())
            return effects
        return [MemoryEffect(EffectKind.READ, None), MemoryEffect(EffectKind.WRITE, None)]

    def is_pure(self) -> bool:
        return not self.memory_effects()

    def verify(self) -> None:
        """Op-specific structural checks; subclasses override and call super."""

    # -- attribute helpers ----------------------------------------------------------
    def get_attr(self, key: str, default=None):
        return self.attributes.get(key, default)

    def set_attr(self, key: str, value) -> None:
        self.attributes[key] = value


# ---------------------------------------------------------------------------
# Block
# ---------------------------------------------------------------------------
class Block:
    """A straight-line sequence of operations with typed block arguments."""

    def __init__(self, arg_types: Sequence[Type] = (), arg_names: Sequence[str] = ()) -> None:
        self.parent_region: Optional[Region] = None
        self.arguments: List[BlockArgument] = []
        self.operations: List[Operation] = []
        for i, arg_type in enumerate(arg_types):
            hint = arg_names[i] if i < len(arg_names) else ""
            self.arguments.append(BlockArgument(self, i, arg_type, hint))

    # -- arguments ----------------------------------------------------------------
    def add_argument(self, type: Type, name_hint: str = "") -> BlockArgument:
        arg = BlockArgument(self, len(self.arguments), type, name_hint)
        self.arguments.append(arg)
        return arg

    # -- op list ------------------------------------------------------------------
    def append(self, op: Operation) -> Operation:
        op.parent_block = self
        self.operations.append(op)
        return op

    def insert(self, index: int, op: Operation) -> Operation:
        op.parent_block = self
        self.operations.insert(index, op)
        return op

    def insert_before(self, anchor: Operation, op: Operation) -> Operation:
        return self.insert(self.index_of(anchor), op)

    def insert_after(self, anchor: Operation, op: Operation) -> Operation:
        return self.insert(self.index_of(anchor) + 1, op)

    def remove(self, op: Operation) -> None:
        self.operations.remove(op)
        op.parent_block = None

    def index_of(self, op: Operation) -> int:
        for i, candidate in enumerate(self.operations):
            if candidate is op:
                return i
        raise ValueError(f"{op.name} is not in this block")

    @property
    def terminator(self) -> Optional[Operation]:
        if self.operations and self.operations[-1].IS_TERMINATOR:
            return self.operations[-1]
        return None

    def ops_before(self, op: Operation) -> List[Operation]:
        return self.operations[: self.index_of(op)]

    def ops_after(self, op: Operation) -> List[Operation]:
        return self.operations[self.index_of(op) + 1 :]

    @property
    def parent_op(self) -> Optional[Operation]:
        return self.parent_region.parent_op if self.parent_region is not None else None

    def clone(self, value_map: Dict[Value, Value]) -> "Block":
        new_block = Block([arg.type for arg in self.arguments],
                          [arg.name_hint for arg in self.arguments])
        for old_arg, new_arg in zip(self.arguments, new_block.arguments):
            value_map[old_arg] = new_arg
        for op in self.operations:
            new_block.append(op.clone(value_map))
        return new_block

    def __iter__(self) -> Iterator[Operation]:
        return iter(self.operations)

    def __len__(self) -> int:
        return len(self.operations)

    def __repr__(self) -> str:
        return f"<Block args={len(self.arguments)} ops={len(self.operations)}>"


# ---------------------------------------------------------------------------
# Region
# ---------------------------------------------------------------------------
class Region:
    """An ordered list of blocks owned by an operation."""

    def __init__(self, blocks: Iterable[Block] = ()) -> None:
        self.parent_op: Optional[Operation] = None
        self.blocks: List[Block] = []
        for block in blocks:
            self.add_block(block)

    def add_block(self, block: Block) -> Block:
        block.parent_region = self
        self.blocks.append(block)
        return block

    @property
    def empty(self) -> bool:
        return not self.blocks

    @property
    def block(self) -> Block:
        """The single block of a structured-control-flow region."""
        if len(self.blocks) != 1:
            raise ValueError(f"expected single-block region, found {len(self.blocks)}")
        return self.blocks[0]

    def clone(self, value_map: Dict[Value, Value]) -> "Region":
        new_region = Region()
        for block in self.blocks:
            new_region.add_block(block.clone(value_map))
        return new_region

    def walk(self) -> Iterator[Operation]:
        for block in self.blocks:
            for op in list(block.operations):
                yield from op.walk()

    def __iter__(self) -> Iterator[Block]:
        return iter(self.blocks)

    def __repr__(self) -> str:
        return f"<Region blocks={len(self.blocks)}>"


def single_block_region(arg_types: Sequence[Type] = (), arg_names: Sequence[str] = ()) -> Region:
    """Create a region holding one (possibly empty) block."""
    return Region([Block(arg_types, arg_names)])
