package sim

import (
	"expensive/internal/msg"
	"expensive/internal/proc"
)

// NosyPlan is a fault plan written outside this repo's rules, shared by
// the white-box and black-box tests of the FaultPlan contract: it corrupts
// F, claims every message it is asked about is omitted — whoever sent or
// received it — and records the questions.
type NosyPlan struct {
	F            proc.Set
	Sends, Recvs *[]msg.Message
}

func (p NosyPlan) Faulty() proc.Set          { return p.F }
func (p NosyPlan) Byzantine(proc.ID) Machine { return nil }
func (p NosyPlan) SendOmit(m msg.Message) bool {
	*p.Sends = append(*p.Sends, m)
	return true
}
func (p NosyPlan) ReceiveOmit(m msg.Message) bool {
	*p.Recvs = append(*p.Recvs, m)
	return true
}
