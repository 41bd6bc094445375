package adversary

import (
	"fmt"
	"slices"

	"expensive/internal/msg"
	"expensive/internal/proc"
	"expensive/internal/sim"
)

// ExplicitPlan is a fully materialized, JSON-serializable fault plan: the
// corrupted set, the exact message identities omitted, and replayable
// machine specs for Byzantine processes. Unlike the predicate-based plans
// strategies build, an explicit plan is finite data — it can be printed,
// stored, compared, shrunk element by element, and replayed bit-for-bit.
type ExplicitPlan struct {
	Faulty      []proc.ID  `json:"faulty"`
	SendOmit    []msg.Key  `json:"send_omit,omitempty"`
	ReceiveOmit []msg.Key  `json:"receive_omit,omitempty"`
	Byzantine   []ByzEntry `json:"byzantine,omitempty"`
}

// FaultySet returns the corrupted set as a proc.Set.
func (p *ExplicitPlan) FaultySet() proc.Set { return proc.NewSet(p.Faulty...) }

// Omissions returns the total number of omitted message identities.
func (p *ExplicitPlan) Omissions() int { return len(p.SendOmit) + len(p.ReceiveOmit) }

// String summarizes the plan for diagnostics.
func (p *ExplicitPlan) String() string {
	return fmt.Sprintf("%d faulty, %d send-omits, %d receive-omits, %d byzantine",
		len(p.Faulty), len(p.SendOmit), len(p.ReceiveOmit), len(p.Byzantine))
}

// Clone deep-copies the plan so shrink candidates and fuzz mutants never
// alias the plan they were derived from.
func (p *ExplicitPlan) Clone() ExplicitPlan {
	return ExplicitPlan{
		Faulty:      append([]proc.ID(nil), p.Faulty...),
		SendOmit:    append([]msg.Key(nil), p.SendOmit...),
		ReceiveOmit: append([]msg.Key(nil), p.ReceiveOmit...),
		Byzantine:   append([]ByzEntry(nil), p.Byzantine...),
	}
}

// withoutProc returns the plan with process id un-corrupted: its machine
// replacement and every omission it commits (as faulty sender of a
// send-omit or faulty receiver of a receive-omit) are removed with it.
func (p *ExplicitPlan) withoutProc(id proc.ID) ExplicitPlan {
	out := ExplicitPlan{}
	for _, f := range p.Faulty {
		if f != id {
			out.Faulty = append(out.Faulty, f)
		}
	}
	for _, k := range p.SendOmit {
		if k.Sender != id {
			out.SendOmit = append(out.SendOmit, k)
		}
	}
	for _, k := range p.ReceiveOmit {
		if k.Receiver != id {
			out.ReceiveOmit = append(out.ReceiveOmit, k)
		}
	}
	for _, e := range p.Byzantine {
		if e.ID != id {
			out.Byzantine = append(out.Byzantine, e)
		}
	}
	return out
}

// withoutSendOmit returns the plan minus one send-omitted identity.
func (p *ExplicitPlan) withoutSendOmit(i int) ExplicitPlan {
	out := p.Clone()
	out.SendOmit = append(out.SendOmit[:i:i], out.SendOmit[i+1:]...)
	return out
}

// withoutReceiveOmit returns the plan minus one receive-omitted identity.
func (p *ExplicitPlan) withoutReceiveOmit(i int) ExplicitPlan {
	out := p.Clone()
	out.ReceiveOmit = append(out.ReceiveOmit[:i:i], out.ReceiveOmit[i+1:]...)
	return out
}

// filterTo restricts the plan to the universe {0..n-1}, dropping every
// corruption and omission that references a removed process.
func (p *ExplicitPlan) filterTo(n int) ExplicitPlan {
	out := ExplicitPlan{}
	for _, f := range p.Faulty {
		if int(f) < n {
			out.Faulty = append(out.Faulty, f)
		}
	}
	for _, k := range p.SendOmit {
		if int(k.Sender) < n && int(k.Receiver) < n {
			out.SendOmit = append(out.SendOmit, k)
		}
	}
	for _, k := range p.ReceiveOmit {
		if int(k.Sender) < n && int(k.Receiver) < n {
			out.ReceiveOmit = append(out.ReceiveOmit, k)
		}
	}
	for _, e := range p.Byzantine {
		if int(e.ID) < n {
			out.Byzantine = append(out.Byzantine, e)
		}
	}
	return out
}

// Plan instantiates the explicit plan as a live sim.FaultPlan, building
// fresh Byzantine machines from the specs (machines are stateful; every
// run needs its own).
func (p *ExplicitPlan) Plan(env Env) sim.FaultPlan {
	fp := &explicitFaultPlan{
		faulty:   p.FaultySet(),
		send:     make(map[msg.Key]bool, len(p.SendOmit)),
		recv:     make(map[msg.Key]bool, len(p.ReceiveOmit)),
		machines: make(map[proc.ID]sim.Machine, len(p.Byzantine)),
		specs:    append([]ByzEntry(nil), p.Byzantine...),
	}
	for _, k := range p.SendOmit {
		fp.send[k] = true
	}
	for _, k := range p.ReceiveOmit {
		fp.recv[k] = true
	}
	for _, e := range p.Byzantine {
		fp.machines[e.ID] = e.Spec.build(env, e.ID)
	}
	return fp
}

// explicitFaultPlan is the live form of an ExplicitPlan.
type explicitFaultPlan struct {
	faulty   proc.Set
	send     map[msg.Key]bool
	recv     map[msg.Key]bool
	machines map[proc.ID]sim.Machine
	specs    []ByzEntry
}

var _ sim.FaultPlan = (*explicitFaultPlan)(nil)

// Faulty implements sim.FaultPlan.
func (p *explicitFaultPlan) Faulty() proc.Set { return p.faulty }

// Byzantine implements sim.FaultPlan.
func (p *explicitFaultPlan) Byzantine(id proc.ID) sim.Machine { return p.machines[id] }

// SendOmit implements sim.FaultPlan.
func (p *explicitFaultPlan) SendOmit(m msg.Message) bool { return p.send[m.Key()] }

// ReceiveOmit implements sim.FaultPlan.
func (p *explicitFaultPlan) ReceiveOmit(m msg.Message) bool { return p.recv[m.Key()] }

// Specs implements the replayable-machines hook.
func (p *explicitFaultPlan) Specs() []ByzEntry { return p.specs }

// Extract materializes the fault plan actually exercised by execution e:
// the omitted message identities recorded in the trace, plus the machine
// specs of the plan's Byzantine processes. Replaying the result
// reproduces e exactly — the omission decisions on messages never
// attempted cannot matter, and the machines are deterministic. It fails
// when the plan replaced machines it cannot describe (a plan built
// outside this package's strategy library).
func Extract(e *sim.Execution, plan sim.FaultPlan) (*ExplicitPlan, error) {
	out := &ExplicitPlan{Faulty: e.Faulty.Members()}
	for _, b := range e.Behaviors {
		for _, f := range b.Fragments {
			for _, m := range f.SendOmitted {
				out.SendOmit = append(out.SendOmit, m.Key())
			}
			for _, m := range f.ReceiveOmitted {
				out.ReceiveOmit = append(out.ReceiveOmit, m.Key())
			}
		}
	}
	slices.SortFunc(out.SendOmit, msg.Key.Compare)
	slices.SortFunc(out.ReceiveOmit, msg.Key.Compare)

	specs := make(map[proc.ID]MachineSpec)
	for _, entry := range specsOf(plan) {
		specs[entry.ID] = entry.Spec
	}
	for _, id := range e.Faulty.Members() {
		if plan.Byzantine(id) == nil {
			continue
		}
		spec, ok := specs[id]
		if !ok {
			return nil, fmt.Errorf("extract: byzantine machine of %s has no replayable spec", id)
		}
		out.Byzantine = append(out.Byzantine, ByzEntry{ID: id, Spec: spec})
	}
	sortEntries(out.Byzantine)
	return out, nil
}
