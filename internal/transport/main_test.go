package transport_test

import (
	"testing"

	"expensive/internal/leakcheck"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }
