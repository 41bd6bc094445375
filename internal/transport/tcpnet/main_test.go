package tcpnet

import (
	"testing"

	"expensive/internal/leakcheck"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }
