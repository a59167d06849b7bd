import pytest
from hypothesis import settings

settings.register_profile("suite", max_examples=25, deadline=None)
settings.load_profile("suite")

from valdetect.coeffmod import Level
from valdetect.fields import parse_field, parse_window


@pytest.fixture(scope="session")
def F7():
    return parse_field("gf:7")


@pytest.fixture(scope="session")
def F7u():
    return parse_field("ratfunc(gf:7,u)")


@pytest.fixture(scope="session")
def F7t():
    return parse_field("laurent(gf:7,t)")


@pytest.fixture(scope="session")
def F7ut():
    return parse_field("laurent(ratfunc(gf:7,u),t)")


@pytest.fixture(scope="session")
def F7st():
    return parse_field("laurent(laurent(gf:7,s),t)")


@pytest.fixture(scope="session")
def w_u_u3(F7u):
    return parse_window(F7u, "{ell=3,n=1,gens=[u,u-3]}")


@pytest.fixture(scope="session")
def w_t_c(F7t):
    return parse_window(F7t, "{ell=3,n=1,gens=[t,const]}")


@pytest.fixture(scope="session")
def w_tuu3(F7ut):
    return parse_window(F7ut, "{ell=3,n=1,gens=[t,u,u-3]}")


@pytest.fixture(scope="session")
def w_tsc(F7st):
    return parse_window(F7st, "{ell=3,n=1,gens=[t,s,const]}")


@pytest.fixture(scope="session")
def w19_t_c():
    return parse_window(parse_field("laurent(gf:19,t)"),
                        "{ell=3,n=2,gens=[t,const]}")


@pytest.fixture(scope="session")
def w19_tsc():
    return parse_window(parse_field("laurent(laurent(gf:19,s),t)"),
                        "{ell=3,n=2,gens=[t,s,const]}")


@pytest.fixture(scope="session")
def w5_tsc():
    return parse_window(parse_field("laurent(laurent(gf:5,s),t)"),
                        "{ell=2,n=1,gens=[t,s,const]}")


@pytest.fixture(scope="session")
def level31():
    return Level(3, 1)
