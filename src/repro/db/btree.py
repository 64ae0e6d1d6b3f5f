"""A paged B+-tree.

A real insert/search/delete/range B+-tree whose nodes are numbered pages.
The algorithmic state (keys, children) lives in Python; the *page access
pattern* — which pages a lookup touches, which pages an insert dirties,
how splits fan out — is what the storage stack consumes.  Engines route
the returned page sets through the buffer pool and page store so every
structural property (depth grows as pages shrink, root stays hot, leaf
writes dominate) costs what it should.

Couchbase's append-only tree is a copy-on-write variant built on top in
:mod:`repro.db.couchstore`.
"""

import bisect


class Node:
    __slots__ = ("page_no", "leaf", "keys", "values", "children")

    def __init__(self, page_no, leaf):
        self.page_no = page_no
        self.leaf = leaf
        self.keys = []
        self.values = [] if leaf else None
        self.children = None if leaf else []


class AccessResult:
    """Pages touched by one tree operation."""

    __slots__ = ("value", "path", "dirtied", "found")

    def __init__(self, value=None, path=(), dirtied=(), found=False):
        self.value = value
        self.path = list(path)
        self.dirtied = list(dirtied)
        self.found = found


class PagedBTree:
    """B+-tree with configurable node capacities (derived from page size).

    ``leaf_capacity`` — max records per leaf; ``internal_capacity`` — max
    children per internal node.  Both must be >= 2 (>= 3 for sane splits).
    """

    def __init__(self, leaf_capacity, internal_capacity, first_page_no=0):
        if leaf_capacity < 2 or internal_capacity < 3:
            raise ValueError("capacities too small: leaf>=2, internal>=3")
        self.leaf_capacity = leaf_capacity
        self.internal_capacity = internal_capacity
        self._next_page = first_page_no
        self._nodes = {}
        self.root = self._new_node(leaf=True)
        self.size = 0

    @classmethod
    def for_page_size(cls, page_size, record_bytes, key_bytes=16,
                      fill_factor=1.0, first_page_no=0):
        """Capacities a real engine would get for this page size."""
        leaf = max(2, int(page_size * fill_factor // record_bytes))
        internal = max(3, int(page_size * fill_factor // key_bytes))
        return cls(leaf, internal, first_page_no=first_page_no)

    # --- structure ------------------------------------------------------------
    def _new_node(self, leaf):
        node = Node(self._next_page, leaf)
        self._next_page += 1
        self._nodes[node.page_no] = node
        return node

    def node(self, page_no):
        return self._nodes[page_no]

    @property
    def depth(self):
        depth = 1
        node = self.root
        while not node.leaf:
            node = self._nodes[node.children[0]]
            depth += 1
        return depth

    def _descend(self, key):
        """Root-to-leaf path of nodes for ``key``."""
        path = [self.root]
        node = self.root
        while not node.leaf:
            index = bisect.bisect_right(node.keys, key)
            node = self._nodes[node.children[index]]
            path.append(node)
        return path

    # --- operations --------------------------------------------------------------
    def search(self, key):
        path = self._descend(key)
        leaf = path[-1]
        index = bisect.bisect_left(leaf.keys, key)
        result = AccessResult(path=[n.page_no for n in path])
        if index < len(leaf.keys) and leaf.keys[index] == key:
            result.value = leaf.values[index]
            result.found = True
        return result

    def insert(self, key, value):
        """Insert or overwrite; returns the pages touched and dirtied."""
        path = self._descend(key)
        leaf = path[-1]
        index = bisect.bisect_left(leaf.keys, key)
        result = AccessResult(path=[n.page_no for n in path])
        if index < len(leaf.keys) and leaf.keys[index] == key:
            leaf.values[index] = value
            result.dirtied = [leaf.page_no]
            result.found = True
            return result
        leaf.keys.insert(index, key)
        leaf.values.insert(index, value)
        self.size += 1
        result.dirtied = [leaf.page_no]
        self._split_upward(path, result)
        return result

    def _split_upward(self, path, result):
        level = len(path) - 1
        while level >= 0:
            node = path[level]
            capacity = (self.leaf_capacity if node.leaf
                        else self.internal_capacity)
            if len(node.keys) <= capacity and (node.leaf or
                                               len(node.children) <= capacity):
                break
            sibling, separator = self._split(node)
            result.dirtied.extend([node.page_no, sibling.page_no])
            if level == 0:
                new_root = self._new_node(leaf=False)
                new_root.keys = [separator]
                new_root.children = [node.page_no, sibling.page_no]
                self.root = new_root
                result.dirtied.append(new_root.page_no)
                break
            parent = path[level - 1]
            index = bisect.bisect_right(parent.keys, separator)
            parent.keys.insert(index, separator)
            parent.children.insert(index + 1, sibling.page_no)
            result.dirtied.append(parent.page_no)
            level -= 1
        # de-duplicate, preserving order
        seen = set()
        result.dirtied = [p for p in result.dirtied
                          if not (p in seen or seen.add(p))]

    def _split(self, node):
        sibling = self._new_node(leaf=node.leaf)
        middle = len(node.keys) // 2
        if node.leaf:
            sibling.keys = node.keys[middle:]
            sibling.values = node.values[middle:]
            node.keys = node.keys[:middle]
            node.values = node.values[:middle]
            separator = sibling.keys[0]
        else:
            separator = node.keys[middle]
            sibling.keys = node.keys[middle + 1:]
            sibling.children = node.children[middle + 1:]
            node.keys = node.keys[:middle]
            node.children = node.children[:middle + 1]
        return sibling, separator

    def delete(self, key):
        """Remove a key (lazy: leaves may underfill, like real engines'
        delete-marking; empty non-root leaves are left in place)."""
        path = self._descend(key)
        leaf = path[-1]
        index = bisect.bisect_left(leaf.keys, key)
        result = AccessResult(path=[n.page_no for n in path])
        if index >= len(leaf.keys) or leaf.keys[index] != key:
            return result
        del leaf.keys[index]
        del leaf.values[index]
        self.size -= 1
        result.found = True
        result.dirtied = [leaf.page_no]
        return result

    def range_scan(self, start_key, count):
        """Up to ``count`` (key, value) pairs from ``start_key`` upward.

        The path covers the descent plus every extra leaf walked.
        """
        path = self._descend(start_key)
        pages = [n.page_no for n in path]
        leaf = path[-1]
        index = bisect.bisect_left(leaf.keys, start_key)
        items = []
        while len(items) < count:
            while index < len(leaf.keys) and len(items) < count:
                items.append((leaf.keys[index], leaf.values[index]))
                index += 1
            if len(items) >= count:
                break
            next_leaf = self._next_leaf(leaf)
            if next_leaf is None:
                break
            leaf = next_leaf
            pages.append(leaf.page_no)
            index = 0
        result = AccessResult(path=pages, found=bool(items))
        result.value = items
        return result

    def _next_leaf(self, leaf):
        """Right neighbour via a fresh descent (no sibling pointers kept)."""
        if not leaf.keys:
            return None
        key = leaf.keys[-1]
        path = self._descend(key)
        for level in range(len(path) - 2, -1, -1):
            parent = path[level]
            child_index = parent.children.index(path[level + 1].page_no)
            if child_index + 1 < len(parent.children):
                node = self._nodes[parent.children[child_index + 1]]
                while not node.leaf:
                    node = self._nodes[node.children[0]]
                return node
        return None

    # --- invariant checking (tests lean on this) ---------------------------------
    def check_invariants(self):
        """Raise AssertionError if any B+-tree invariant is violated."""
        self._check_node(self.root, None, None, is_root=True)
        keys = [key for key, _value in self.items()]
        assert keys == sorted(keys), "leaf chain out of order"
        assert len(keys) == self.size, "size counter drifted"

    def _check_node(self, node, low, high, is_root=False):
        for key in node.keys:
            assert (low is None or key >= low) and (high is None or key < high), \
                "key %r escapes [%r, %r)" % (key, low, high)
        assert node.keys == sorted(node.keys), "unsorted node"
        if node.leaf:
            assert len(node.keys) <= self.leaf_capacity + 1
            assert len(node.keys) == len(node.values)
            return
        assert len(node.children) == len(node.keys) + 1
        assert len(node.children) <= self.internal_capacity + 1
        if not is_root:
            assert len(node.children) >= 2, "degenerate internal node"
        bounds = [low] + node.keys + [high]
        for index, child_page in enumerate(node.children):
            self._check_node(self._nodes[child_page],
                             bounds[index], bounds[index + 1])

    def items(self):
        """All (key, value) pairs in key order."""
        out = []
        self._collect(self.root, out)
        return out

    def _collect(self, node, out):
        if node.leaf:
            out.extend(zip(node.keys, node.values))
            return
        for child_page in node.children:
            self._collect(self._nodes[child_page], out)
