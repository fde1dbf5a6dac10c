// Package corpus provides the benchmark datasets of the evaluation:
// the paper's motivating contracts (Fig. 1 and Fig. 4), a labelled
// vulnerability suite standing in for D2 (155 contracts from SmartBugs,
// VeriSmart, TMP, SWC), and deterministic synthetic generators standing in
// for D1 (21K Ethereum contracts) and D3 (500 large contracts). Real
// Etherscan data is unavailable offline; DESIGN.md documents the
// substitution rationale.
package corpus

import "mufuzz/internal/oracle"

// Labeled is one benchmark contract with ground-truth annotations.
type Labeled struct {
	Name   string
	Source string
	// Labels are the bug classes genuinely present (empty = safe contract).
	Labels []oracle.BugClass
	// Hard marks contracts whose bug needs a specific transaction sequence
	// or strictly-guarded input to reach (the deep-state cases motivating
	// the paper).
	Hard bool
}

// HasLabel reports whether the contract is annotated with the class.
func (l Labeled) HasLabel(c oracle.BugClass) bool {
	for _, x := range l.Labels {
		if x == c {
			return true
		}
	}
	return false
}

// Crowdsale returns the paper's Fig. 1 motivating contract. The withdraw
// branch guarded by phase == 1 needs invest to run twice.
func Crowdsale() string {
	return `
contract Crowdsale {
    uint256 phase = 0;
    uint256 goal;
    uint256 invested;
    address owner;
    mapping(address => uint256) invests;

    constructor() public {
        goal = 100 ether;
        invested = 0;
        owner = msg.sender;
    }
    function invest(uint256 donations) public payable {
        if (invested < goal) {
            invests[msg.sender] += donations;
            invested += donations;
            phase = 0;
        } else {
            phase = 1;
        }
    }
    function refund() public {
        if (phase == 0) {
            msg.sender.transfer(invests[msg.sender]);
            invests[msg.sender] = 0;
        }
    }
    function withdraw() public {
        if (phase == 1) {
            owner.transfer(invested);
        }
    }
}`
}

// CrowdsaleBuggy is Crowdsale with the paper's line-31 bug made concrete: an
// unguarded timestamp branch inside the deep withdraw path, so the BD oracle
// fires exactly when the phase == 1 branch is reached.
func CrowdsaleBuggy() string {
	return `
contract CrowdsaleBuggy {
    uint256 phase = 0;
    uint256 goal;
    uint256 invested;
    address owner;
    mapping(address => uint256) invests;

    constructor() public {
        goal = 100 ether;
        invested = 0;
        owner = msg.sender;
    }
    function invest(uint256 donations) public payable {
        if (invested < goal) {
            invests[msg.sender] += donations;
            invested += donations;
            phase = 0;
        } else {
            phase = 1;
        }
    }
    function refund() public {
        if (phase == 0) {
            msg.sender.transfer(invests[msg.sender]);
            invests[msg.sender] = 0;
        }
    }
    function withdraw() public {
        if (phase == 1) {
            // bug(): block-dependent payout in the deep branch
            if (block.timestamp % 2 == 0) {
                owner.transfer(invested);
            }
        }
    }
}`
}

// MagicGate returns the magic-constant benchmark for comparison-operand
// feedback: an unprotected selfdestruct behind a mapping lookup keyed by a
// 4-byte magic. The mapping indirection makes branch distance useless
// (grants[wrong] == 0 vs 7 is a constant distance, and the observed operand
// pair {0, 7} says nothing about the key), and the magic is assembled from
// two halves at runtime — the compiler does not constant-fold, so no single
// PUSH immediate or AST literal spells it. Cracking the gate source-free
// requires mining the folded constant out of the creation bytecode, which is
// exactly what the mined-dictionary feedback does.
func MagicGate() string {
	return `
contract MagicGate {
    mapping(uint256 => uint256) grants;

    constructor() public {
        uint256 hi = 0x4d41;
        uint256 lo = 0x4749;
        grants[hi * 65536 + lo] = 7;
    }
    function claim(uint256 code) public {
        if (grants[code] == 7) {
            selfdestruct(msg.sender);
        }
    }
}`
}

// Game returns the paper's Fig. 4 guess-number contract: a strict msg.value
// guard (88 finney) in front of nested branches with a potential overflow.
func Game() string {
	return `
contract Game {
    mapping(address => uint256) balance;

    function guessNum(uint256 number) public payable {
        uint256 random = keccak256(block.timestamp, now) % 200;
        require(msg.value == 88 finney);
        if (number < random) {
            uint256 luckyNum = number % 2;
            if (luckyNum == 0) {
                balance[msg.sender] += msg.value * 10;
            } else {
                balance[msg.sender] += msg.value * 5;
            }
        }
    }
}`
}

// Examples lists the built-in paper examples under the names the CLIs and
// campaign specs accept: the Fig. 1 crowdsale, its seeded-bug variant and
// the Fig. 4 game.
func Examples() []Labeled {
	return []Labeled{
		{Name: "crowdsale", Source: Crowdsale()},
		{Name: "crowdsale-buggy", Source: CrowdsaleBuggy(), Labels: []oracle.BugClass{oracle.BD}},
		{Name: "game", Source: Game()},
	}
}

// Example returns the source of the named built-in example.
func Example(name string) (string, bool) {
	for _, e := range Examples() {
		if e.Name == name {
			return e.Source, true
		}
	}
	return "", false
}

// Token returns an ERC20-style token: owner-gated minting, guarded
// transfers, and burn — the shape of the deployed real-world contracts the
// paper's large-corpus evaluation runs on. Its compiled bytecode + ABI JSON
// are the bundled source-free fixtures (fixtures/erc20.*) the ingest
// pipeline is exercised against end to end.
func Token() string {
	return `
contract Token {
    mapping(address => uint256) balances;
    uint256 totalSupply = 0;
    address owner;

    constructor() public {
        owner = msg.sender;
    }
    function mint(address to, uint256 amount) public {
        require(msg.sender == owner);
        balances[to] += amount;
        totalSupply += amount;
    }
    function transfer(address to, uint256 amount) public {
        require(balances[msg.sender] >= amount);
        balances[msg.sender] -= amount;
        balances[to] += amount;
    }
    function burn(uint256 amount) public {
        if (balances[msg.sender] >= amount) {
            balances[msg.sender] -= amount;
            totalSupply -= amount;
        }
    }
    function balanceOf(address who) public view returns (uint256) {
        return balances[who];
    }
}`
}

// BankReentrant returns the call-before-state-update bank the multi-contract
// world campaigns are separated on: withdraw notifies the caller with a
// ZERO-value full-gas call before paying out via transfer and only then
// zeroing the balance. The single-contract heuristic oracle cannot flag it —
// its reentrancy rule requires a reentry enabled by a value-bearing call,
// and the payout is a 2300-stipend transfer no callback can re-enter — but a
// synthesized attacker contract re-entering withdraw from the zero-value
// notify double-pays itself, which the witnessed world oracle confirms by
// state divergence. seed() lets the fuzzer fund the bank beyond the
// attacker's own deposit, making the double payout solvent. Compiled to
// fixtures/bank-reentrant.*.
func BankReentrant() string {
	return `
contract BankReentrant {
    mapping(address => uint256) bal;

    function deposit() public payable {
        bal[msg.sender] += msg.value;
    }
    function seed() public payable { }
    function withdraw() public {
        uint256 amount = bal[msg.sender];
        if (amount > 0) {
            require(msg.sender.call.value(0)());
            msg.sender.transfer(amount);
            bal[msg.sender] = 0;
        }
    }
}`
}

// ProxyDelegate returns the attacker-controlled-delegatecall proxy of the
// world fixtures: forward() delegatecalls an arbitrary address, so a world
// campaign that passes the synthesized attacker's address executes attacker
// code in the proxy's storage context — the schedule the witnessed UD oracle
// requires. Compiled to fixtures/proxy-delegate.*.
func ProxyDelegate() string {
	return `
contract ProxyDelegate {
    uint256 stored;

    function fund() public payable { }
    function forward(address impl, uint256 cmd) public {
        impl.delegatecall(cmd);
    }
}`
}

// VulnSuite returns the labelled vulnerability suite: the D2-analog.
// Each class appears in an easy variant and at least one hard (deep-state or
// strict-input) variant; several contracts carry multiple classes, like D2's
// 155 contracts with 217 annotations.
func VulnSuite() []Labeled {
	out := append(baseSuite(), extraSuite()...)
	return append(out, swcSuite()...)
}

func baseSuite() []Labeled {
	return []Labeled{
		// --- BD: block dependency ---
		{
			Name: "bd_lottery_easy",
			Source: `contract BdLottery {
				uint256 pot;
				mapping(address => uint256) win;
				function play() public payable {
					pot += msg.value;
					if (block.timestamp % 7 == 0) { win[msg.sender] = pot; }
				}
				function drain() public { msg.sender.transfer(win[msg.sender]); }
			}`,
			Labels: []oracle.BugClass{oracle.BD},
		},
		{
			Name: "bd_vesting_deep",
			Hard: true,
			Source: `contract BdVesting {
				uint256 staged;
				uint256 phase;
				address owner;
				constructor() public { owner = msg.sender; }
				function stage(uint256 amt) public {
					if (staged < 500) { staged += amt; } else { phase = 1; }
				}
				function release() public {
					if (phase == 1) {
						require(block.number > 100);
						owner.transfer(staged);
					}
				}
			}`,
			// `staged += amt` wraps for a small staged plus a huge amt, so
			// the contract is genuinely IO-vulnerable as well.
			Labels: []oracle.BugClass{oracle.BD, oracle.IO},
		},
		{
			Name: "bd_timelock",
			Source: `contract BdTimelock {
				uint256 unlockAt;
				address owner;
				constructor() public { owner = msg.sender; unlockAt = block.timestamp + 1000; }
				function claim() public {
					if (block.timestamp > unlockAt) { owner.transfer(this.balance); }
				}
				function fund() public payable { }
			}`,
			Labels: []oracle.BugClass{oracle.BD},
		},

		// --- UD: unprotected delegatecall ---
		{
			Name: "ud_proxy_easy",
			Source: `contract UdProxy {
				function forward(address impl, uint256 cmd) public {
					impl.delegatecall(cmd);
				}
			}`,
			Labels: []oracle.BugClass{oracle.UD},
		},
		{
			Name: "ud_upgradeable_deep",
			Hard: true,
			Source: `contract UdUpgradeable {
				uint256 initialized;
				address impl;
				function init(address firstImpl) public {
					require(initialized == 0);
					impl = firstImpl;
					initialized = 1;
				}
				function execute(uint256 cmd) public {
					if (initialized == 1) {
						impl.delegatecall(cmd);
					}
				}
			}`,
			Labels: []oracle.BugClass{oracle.UD},
		},

		// --- EF: ether freezing ---
		{
			Name: "ef_sink_easy",
			Source: `contract EfSink {
				uint256 total;
				function donate() public payable { total += msg.value; }
				function tally() public view returns (uint256) { return total; }
			}`,
			Labels: []oracle.BugClass{oracle.EF},
		},
		{
			Name: "ef_crowdpot_deep",
			Hard: true,
			Source: `contract EfCrowdpot {
				uint256 raised;
				uint256 closed;
				function chip() public payable {
					require(closed == 0);
					raised += msg.value;
					if (raised > 1000) { closed = 1; }
				}
			}`,
			Labels: []oracle.BugClass{oracle.EF},
		},

		// --- IO: integer overflow / underflow ---
		{
			Name: "io_token_easy",
			Source: `contract IoToken {
				mapping(address => uint256) bal;
				function mint(uint256 n) public { bal[msg.sender] += n; }
				function burn(uint256 n) public { bal[msg.sender] -= n; }
			}`,
			Labels: []oracle.BugClass{oracle.IO},
		},
		{
			Name: "io_batch_beautychain",
			Source: `contract IoBatch {
				mapping(address => uint256) bal;
				uint256 supply = 1000000;
				function batch(uint256 cnt, uint256 each) public {
					uint256 amount = cnt * each;
					require(bal[msg.sender] >= amount || amount == 0);
					bal[msg.sender] -= amount;
					bal[msg.sender] += cnt * each;
					supply += amount;
				}
			}`,
			Labels: []oracle.BugClass{oracle.IO},
		},
		{
			Name: "io_vault_deep",
			Hard: true,
			Source: `contract IoVault {
				uint256 stage;
				uint256 acc;
				function advance(uint256 k) public {
					if (stage < 3) { stage += 1; } else { }
				}
				function overflowMe(uint256 big) public {
					if (stage >= 3) {
						acc += big;
						acc += big;
					}
				}
			}`,
			Labels: []oracle.BugClass{oracle.IO},
		},

		// --- RE: reentrancy ---
		{
			Name: "re_dao_easy",
			Source: `contract ReDao {
				mapping(address => uint256) bal;
				function deposit() public payable { bal[msg.sender] += msg.value; }
				function withdraw() public {
					uint256 amount = bal[msg.sender];
					if (amount > 0) {
						require(msg.sender.call.value(amount)());
						bal[msg.sender] = 0;
					}
				}
			}`,
			Labels: []oracle.BugClass{oracle.RE},
		},
		{
			Name: "re_staking_deep",
			Hard: true,
			Source: `contract ReStaking {
				mapping(address => uint256) stake;
				uint256 epoch;
				function bond() public payable { stake[msg.sender] += msg.value; }
				function tick(uint256 x) public {
					if (epoch < 2) { epoch += 1; }
				}
				function unbond() public {
					if (epoch >= 2) {
						uint256 amount = stake[msg.sender];
						if (amount > 0) {
							require(msg.sender.call.value(amount)());
							stake[msg.sender] = 0;
						}
					}
				}
			}`,
			Labels: []oracle.BugClass{oracle.RE},
		},

		// --- US: unprotected selfdestruct ---
		{
			Name: "us_killable_easy",
			Source: `contract UsKillable {
				uint256 x;
				function cleanup() public { selfdestruct(msg.sender); }
				function touch() public { x += 1; }
			}`,
			Labels: []oracle.BugClass{oracle.US},
		},
		{
			Name: "us_parity_deep",
			Hard: true,
			Source: `contract UsParity {
				uint256 initialized;
				address owner;
				function initWallet() public {
					require(initialized == 0);
					owner = msg.sender;
					initialized = 1;
				}
				function kill() public {
					require(msg.sender == owner);
					selfdestruct(msg.sender);
				}
			}`,
			// anyone can initWallet then kill: the guard is bypassable, so
			// US holds even though kill has a sender guard
			Labels: []oracle.BugClass{oracle.US},
		},

		// --- SE: strict ether equality ---
		{
			Name: "se_jackpot_easy",
			Source: `contract SeJackpot {
				uint256 won;
				function bet() public payable {
					if (this.balance == 1 ether) { won = 1; }
				}
			}`,
			// payable with no value-out instruction: the ether also freezes
			Labels: []oracle.BugClass{oracle.SE, oracle.EF},
		},
		{
			Name: "se_milestone_deep",
			Hard: true,
			Source: `contract SeMilestone {
				uint256 level;
				uint256 prize;
				function fund() public payable {
					if (level < 2) {
						level += 1;
					} else {
						if (this.balance == 500) { prize = 1; }
					}
				}
			}`,
			Labels: []oracle.BugClass{oracle.SE, oracle.EF},
		},

		// --- TO: tx.origin ---
		{
			Name: "to_wallet_easy",
			Source: `contract ToWallet {
				address owner;
				uint256 out;
				constructor() public { owner = msg.sender; }
				function pay(uint256 amt) public {
					require(tx.origin == owner);
					out += amt;
					msg.sender.transfer(amt);
				}
				function fund() public payable { }
			}`,
			Labels: []oracle.BugClass{oracle.TO},
		},
		{
			Name: "to_gated_deep",
			Hard: true,
			Source: `contract ToGated {
				address owner;
				uint256 opened;
				uint256 secret;
				constructor() public { owner = msg.sender; }
				function open(uint256 code) public {
					require(code == 31337);
					opened = 1;
				}
				function privileged() public {
					if (opened == 1) {
						require(tx.origin == owner);
						secret = 1;
					}
				}
			}`,
			Labels: []oracle.BugClass{oracle.TO},
		},

		// --- UE: unhandled exception ---
		{
			Name: "ue_payout_easy",
			Source: `contract UePayout {
				mapping(address => uint256) owed;
				function credit(uint256 n) public { owed[msg.sender] = n; }
				function payout(address to) public {
					to.send(owed[to]);
					owed[to] = 0;
				}
			}`,
			Labels: []oracle.BugClass{oracle.UE},
		},
		{
			Name: "ue_airdrop_deep",
			Hard: true,
			Source: `contract UeAirdrop {
				uint256 armed;
				uint256 round;
				function arm(uint256 k) public {
					if (round < 2) { round += 1; } else { armed = 1; }
				}
				function drop(address to, uint256 amt) public {
					if (armed == 1) {
						to.send(amt);
					}
				}
			}`,
			Labels: []oracle.BugClass{oracle.UE},
		},

		// --- multi-class contracts (like D2's multi-annotated entries) ---
		{
			Name: "multi_casino",
			Source: `contract MultiCasino {
				mapping(address => uint256) chips;
				uint256 pot;
				address owner;
				constructor() public { owner = msg.sender; }
				function buyIn() public payable {
					chips[msg.sender] += msg.value;
					pot += msg.value;
				}
				function spin(uint256 guess) public {
					if (block.timestamp % 5 == guess) {
						chips[msg.sender] += pot / 2;
					}
				}
				function cashOut() public {
					uint256 amount = chips[msg.sender];
					if (amount > 0) {
						require(msg.sender.call.value(amount)());
						chips[msg.sender] = 0;
					}
				}
			}`,
			Labels: []oracle.BugClass{oracle.BD, oracle.RE},
		},
		{
			Name: "multi_bank",
			Source: `contract MultiBank {
				mapping(address => uint256) bal;
				uint256 fees;
				function deposit() public payable { bal[msg.sender] += msg.value; }
				function skim(uint256 n) public {
					require(tx.origin == msg.sender);
					fees -= n;
					msg.sender.send(n);
				}
			}`,
			Labels: []oracle.BugClass{oracle.IO, oracle.TO, oracle.UE},
		},
	}
}

// SafeSuite returns bug-free contracts used to measure false positives.
func SafeSuite() []Labeled {
	return []Labeled{
		{
			Name: "safe_counter",
			Source: `contract SafeCounter {
				uint256 count;
				function inc() public { require(count < 1000000); count += 1; }
				function get() public view returns (uint256) { return count; }
			}`,
		},
		{
			Name: "safe_vault",
			Source: `contract SafeVault {
				mapping(address => uint256) bal;
				function deposit() public payable {
					require(msg.value < 1000 ether);
					bal[msg.sender] += msg.value;
				}
				function withdraw(uint256 n) public {
					require(bal[msg.sender] >= n);
					bal[msg.sender] -= n;
					msg.sender.transfer(n);
				}
			}`,
		},
		{
			Name: "safe_registry",
			Source: `contract SafeRegistry {
				mapping(address => uint256) ids;
				uint256 next = 1;
				function register() public {
					require(ids[msg.sender] == 0);
					require(next < 100000);
					ids[msg.sender] = next;
					next += 1;
				}
			}`,
		},
		{
			Name: "safe_owned",
			Source: `contract SafeOwned {
				address owner;
				uint256 setting;
				constructor() public { owner = msg.sender; }
				function configure(uint256 v) public {
					require(msg.sender == owner);
					require(v < 4096);
					setting = v;
				}
			}`,
		},
		{
			Name: "safe_escrow",
			Source: `contract SafeEscrow {
				address owner;
				mapping(address => uint256) held;
				constructor() public { owner = msg.sender; }
				function hold() public payable {
					require(msg.value < 10 ether);
					held[msg.sender] += msg.value;
				}
				function release(uint256 n) public {
					require(held[msg.sender] >= n);
					held[msg.sender] -= n;
					msg.sender.transfer(n);
				}
			}`,
		},
	}
}
