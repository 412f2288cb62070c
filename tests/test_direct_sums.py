"""Direct sums keep their blocks: FiniteModule.split and inject against
slicing by rank offsets, and core.block_hom under random routes against
the element function it replaces.  The blocks are mixed-order modules
over Z/4, Z/6, Z/8 and Z/9, blocks of rank 0 among them.
"""

from hypothesis import given
from hypothesis import strategies as st

from idealbar.core import FiniteModule, ModuleHom, block_hom, direct_sum
from oracles import join

# summand orders for each modulus; order-1 summands are dropped, so a
# block drawn from them alone has rank 0
ORDERS = {4: (1, 2, 4), 6: (1, 2, 3, 6), 8: (1, 2, 4, 8), 9: (1, 3, 9)}
moduli = st.sampled_from(sorted(ORDERS))


def blocks(draw, m):
    return [FiniteModule(m, draw(st.lists(st.sampled_from(ORDERS[m]),
                                          max_size=3)))
            for _ in range(draw(st.integers(1, 4)))]


def element(draw, mod):
    return tuple(draw(st.integers(0, d - 1)) for d in mod.orders)


def offset_split(t, mods):
    """t cut by the ranks of mods, in order."""
    out, start = [], 0
    for mod in mods:
        out.append(t[start:start + mod.rank])
        start += mod.rank
    return tuple(out)


@given(st.data())
def test_split_and_inject_keep_the_blocks(data):
    draw = data.draw
    m = draw(moduli)
    mods = blocks(draw, m)
    total = direct_sum(mods)
    assert total.blocks == tuple(mods)
    # equality and hashing stay by modulus and orders
    plain = FiniteModule(m, [d for mod in mods for d in mod.orders])
    assert total == plain and hash(total) == hash(plain)
    assert plain.blocks == (plain,)

    x = element(draw, total)
    assert total.split(x) == offset_split(x, mods)
    assert join((), total.split(x)) == x
    assert plain.split(x) == (x,) and plain.inject(0, x) == x
    for j, mod in enumerate(mods):
        y = element(draw, mod)
        assert total.split(total.inject(j, y)) == tuple(
            y if i == j else other.zero for i, other in enumerate(mods))


@given(st.data())
def test_block_hom_matches_its_element_function(data):
    draw = data.draw
    m = draw(moduli)
    dom_mods, cod_mods = blocks(draw, m), blocks(draw, m)
    route = []
    for mod in dom_mods:
        same = [j for j, cod in enumerate(cod_mods) if cod == mod]
        kinds = ["kill", "hom"] + ["identity"] * bool(same)
        kind = draw(st.sampled_from(kinds))
        if kind == "kill":
            route.append(None)
        elif kind == "identity":
            route.append((draw(st.sampled_from(same)), None))
        else:
            j = draw(st.integers(0, len(cod_mods) - 1))
            route.append((j, ModuleHom(mod, cod_mods[j], [
                element(draw, cod_mods[j]) for _ in range(mod.rank)])))

    def fn(t):
        out = [cod.zero for cod in cod_mods]
        for x, to in zip(offset_split(t, dom_mods), route):
            if to is not None:
                j, hom = to
                y = x if hom is None else hom.apply(x)
                out[j] = cod_mods[j].add(out[j], y)
        return join((), out)

    dom, cod = direct_sum(dom_mods), direct_sum(cod_mods)
    got = block_hom(dom, cod, route, "f")
    assert got.images == ModuleHom(
        dom, cod, [fn(g) for g in dom.generators()]).images
    assert (got.domain, got.codomain, got.name) == (dom, cod, "f")
