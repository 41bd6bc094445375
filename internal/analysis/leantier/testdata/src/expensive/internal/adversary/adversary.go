// Fixture stub of the real adversary package.
package adversary

import "expensive/internal/sim"

type ExplicitPlan struct{}

func Extract(e *sim.Execution, plan any) (*ExplicitPlan, error) { return nil, nil }
