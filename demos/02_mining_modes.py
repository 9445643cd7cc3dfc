"""Simple vs progressive mining on a small distribution tree.

root -> alice -> bob -> carol

In simple mode a contributor keeps the whole payment. In progressive mode
the branch above the contributor exerts "pull": the contributor keeps
x * P / (P + b * sum(ancestor prestige)) and the remainder climbs upstream,
hop by hop, with the root absorbing whatever is left.
"""

from prestigesim import Account, MiningDag, apply_transfer, retain_progressive

dag = MiningDag()
dag.add_root("root")
dag.attach("root", "alice")
dag.attach("alice", "bob")
dag.attach("bob", "carol")

accounts = {
    "root": Account(id="root", prestige=400.0),
    "alice": Account(id="alice", prestige=150.0),
    "bob": Account(id="bob", prestige=60.0),
    "carol": Account(id="carol", prestige=25.0),
    "payer": Account(id="payer", prestige=0.0),
}

b = 0.5
x = 100.0
# branch power: b times the prestige above carol, negative ancestors counting zero
pull = b * sum(max(accounts[uid].prestige, 0.0) for uid in dag.path_to_root("carol")[1:])
kept = retain_progressive(x, accounts["carol"].prestige, pull)
print(f"carol is paid {x:.0f} prestige for a task")
print(f"branch power above carol (b={b}): {pull:.1f}")
print(f"carol keeps {kept:.2f}, {x - kept:.2f} flows upstream")
print()

for mode in ("simple", "progressive"):
    after = dict(accounts)  # apply_transfer updates the map it is given
    record = apply_transfer(
        after, dag, beneficiary="payer", contributor="carol", x=x, mode=mode, b=b,
    )
    print(f"-- {mode} --")
    for uid in ("root", "alice", "bob", "carol"):
        delta = after[uid].prestige - accounts[uid].prestige
        print(f"  {uid:<6} {accounts[uid].prestige:>7.1f} -> {after[uid].prestige:>8.2f}  ({delta:+.2f})")
    total_before = sum(a.prestige for a in accounts.values())
    total_after = sum(a.prestige for a in after.values())
    print(f"  total prestige: {total_before:.1f} -> {total_after:.1f} (conserved)")
    print(f"  shares: {[(uid, round(amt, 2)) for uid, amt in record.retained_by]}")
    print()
